"""The benchmark reaches the program by name: `perfbench/run.py` imports names
from `morevqa`, and `perfbench/tracer.py` wraps the functions and methods its
`TARGETS` name. A rename that breaks either fails here, not in a later traced
benchmark run. These tests only read `perfbench/`."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_imports_exists():
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("morevqa")
                for alias in node.names]
    assert ("morevqa.tools", "METHODS") in imported
    missing = []
    for module_name, name in imported:
        module = importlib.import_module(module_name)
        if not hasattr(module, name) and importlib.util.find_spec(f"{module_name}.{name}") is None:
            missing.append(f"{module_name}.{name}")
    assert missing == []


def test_benchmark_grid_is_the_harness_grid(monkeypatch):
    """`perfbench/run.py` keeps its own labelled copy of the grid; it must
    name the same evaluations as `harness.GRID`, in the same order."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for its `inputs`, `tracer` and `wire`
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up
    spec.loader.exec_module(run)
    harness = importlib.import_module("morevqa.harness")
    assert [(system, config) for system, config, _ in run.GRID] == list(harness.GRID)


def test_tracer_finds_every_target_and_puts_each_back():
    tracer = _load("tracer")
    for module_name, _, _ in tracer.TARGETS:
        importlib.import_module(module_name)
    package = {name: dict(vars(module)) for name, module in sys.modules.items()
               if name == "morevqa" or name.startswith("morevqa.")}
    tools = sys.modules["morevqa.tools"]
    methods = [vars(tools.ToolSession)["dispatch"], vars(tools.ReplyStore)["dispatch"],
               vars(tools.ReplayBackend)["__init__"]]
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
        assert tools.ToolSession.dispatch is not methods[0]
    finally:
        t.uninstall()
    assert {name: dict(vars(sys.modules[name])) for name in package} == package
    assert [vars(tools.ToolSession)["dispatch"], tools.RecordingBackend.dispatch,
            vars(tools.ReplayBackend)["__init__"]] == methods
    assert "dispatch" not in vars(tools.RecordingBackend)


def test_tracer_spans_every_system(oracle_bundle, oracle_dir, mock_backend):
    """Each system's runner is looked up when its item runs, so the tracer's
    wrappers are the ones called: a system table that held the runners bound
    at import time would lose the `baselines.*` spans."""
    tracer = _load("tracer")
    harness = importlib.import_module("morevqa.harness")
    item = harness.load_dataset(oracle_dir / "dataset.jsonl")[0]
    t = tracer.Tracer()
    t.install()
    try:
        for system in harness.SYSTEMS:
            harness.run_eval([item], system, mock_backend, oracle_bundle.fixtures,
                             dataset_dir=oracle_dir)
        t.collect()
    finally:
        t.uninstall()
    spans = {(span[2], span[6]) for span in t.last_spans}
    assert {tag for name, tag in spans if name == "harness.item"} == {
        f"{system}:{item.video_id}" for system in harness.SYSTEMS}
    expected = {
        ("baselines.jcef", f"jcef:{item.video_id}"),
        ("baselines.llm_only", f"llm_only:{item.video_id}"),
        ("baselines.single_stage", f"single_stage:{item.video_id}"),
    } | {(f"pipeline.{stage}", f"morevqa:{item.video_id}")
         for stage in ("event_parsing", "grounding", "reasoning", "context", "predict")}
    assert expected <= spans


def test_tracer_sizes_wire_calls_from_their_json_dicts(mock_backend):
    """In wire mode the tracer sizes each call from `req.to_json_dict()` and
    `resp.to_json_dict()`; outside this test only a traced `grid-wire-2w` run
    reaches that code."""
    tracer = _load("tracer")
    tools = importlib.import_module("morevqa.tools")
    server = importlib.import_module("morevqa.server").start_server(mock_backend)
    remote = tools.RemoteBackend(*server.server_address[:2])
    t = tracer.Tracer()
    t.wrap_backend(remote, "tools.backend", track_repeats=True, wire=True)
    try:
        ok = remote.dispatch(tools.ToolRequest(1, "caption", "v000", 1))
        invalid = remote.dispatch(tools.ToolRequest(2, "caption", "v000", None))
        totals, counts = t.take()
    finally:
        t.uninstall()
        remote.close()
        server.shutdown()
        server.server_close()
    assert ok.ok and invalid.error.startswith("invalid:")
    assert set(totals) == {"tools.backend.caption"} and totals["tools.backend.caption"][0] == 2
    assert counts["wire_bytes"] > 0 and "repeats" not in counts
