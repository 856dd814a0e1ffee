#!/usr/bin/env python3
"""End-to-end benchmark of the MoReVQA engine, with a traced per-layer mode.

Usage, from the repository root:

    python3 perfbench/run.py --workload morevqa-mock --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each workload builds its inputs from the seed, sets itself up several times
(reporting the slow-side quartile as `setup_s`), checks every answer
against the expected outcome, and runs closed-loop passes through the
public `morevqa.harness.run_eval` until `--seconds` have passed. With
`--trace 1` it alternates untraced and traced passes and reports per-layer
metrics instead. The last line of output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    from morevqa import harness
    from morevqa.core import RunConfig
    from morevqa.tools import (
        METHODS,
        MockBackend,
        RecordingBackend,
        RemoteBackend,
        ReplayBackend,
        ToolRequest,
    )

    import inputs
    from tracer import Counted, Tracer
    from wire import ForkedServer
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program under test: {exc}")

# set-up repeats at least this often and for at least this long
SETUP_REPEATS = 9
SETUP_SECONDS = 3.0
MIN_PASSES = 3
OUT_DIR = HERE / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "mock", "wire" or "replay"
    tiles: int
    workers: int
    grid: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("morevqa-mock", "mock", tiles=4, workers=1, grid=False),
        Workload("grid-wire-2w", "wire", tiles=1, workers=2, grid=True),
        Workload("replay-grid", "replay", tiles=2, workers=1, grid=True),
    )
}

# The run_experiments.py grid: every system, then the stage ablation masks.
GRID = [(system, RunConfig(), system) for system in harness.SYSTEMS] + [
    ("morevqa", RunConfig(stage_mask=mask), "mask" + "".join(str(int(b)) for b in mask))
    for mask in harness.ABLATION_MASKS
]
MOREVQA_ONLY = GRID[:1]

# label -> (accuracy, failure rate); None leaves it unchecked because it
# varies with the seed. single_stage fails 28 of 30 items per tile by design.
EXPECTED = {
    "morevqa": (1.0, 0.0),
    "jcef": (0.0, 0.0),
    "llm_only": (None, 0.0),
    "single_stage": (None, 28 / 30),
    "mask110": (1.0, None),
    "mask111": (1.0, None),
}


class GateError(Exception):
    """An output was wrong; the run reports no numbers."""

    def __init__(self, message: str, attempted: int = 1, failed: int = 1):
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


@dataclass
class Env:
    items: list
    fixtures: dict
    dataset_dir: Path
    backend: object
    counted: Counted | None = None
    server: ForkedServer | None = None
    reference: list | None = None

    def close(self) -> dict | None:
        if self.server is None:
            return None
        self.backend.close()
        return self.server.stop()


def run_grid(evals, env: Env, backend, workers: int) -> list:
    return [
        harness.run_eval(env.items, system, backend, env.fixtures, run_config=config,
                         workers=workers, dataset_dir=env.dataset_dir)[0]
        for system, config, _ in evals
    ]


def outcome(res) -> tuple:
    return (res.predicted_answer, res.mc_index, res.pred_window_s, res.failure is None)


def check(evals, outputs: list, reference: list | None) -> int:
    """Raise GateError on a wrong summary; return the number of items whose
    outcome differs from the reference run on the in-process mock."""
    for (_, _, label), results in zip(evals, outputs):
        summary = harness.summarize(label, results)
        accuracy, failure_rate = EXPECTED.get(label, (None, None))
        if accuracy is not None and abs(summary["accuracy"] - accuracy) > 1e-9:
            raise GateError(
                f"{label}: accuracy {summary['accuracy']:.3f}, expected {accuracy:.3f}"
            )
        if failure_rate is not None and abs(summary["failure_rate"] - failure_rate) > 1e-9:
            raise GateError(
                f"{label}: failure rate {summary['failure_rate']:.3f}, expected {failure_rate:.3f}"
            )
    if reference is None:
        return 0
    return sum(
        outcome(res) != outcome(ref)
        for results, expected in zip(outputs, reference)
        for res, ref in zip(results, expected)
    )


def setup(w: Workload, seed: int, work_dir: Path, tracer: Tracer | None) -> Env:
    fixtures, dataset = inputs.write_tiles(seed, w.tiles, work_dir)
    env = Env(harness.load_dataset(dataset), fixtures, work_dir, None)
    if w.backend == "mock":
        env.backend = MockBackend(env.fixtures)
        env.counted = Counted(env.backend)
    elif w.backend == "wire":
        env.server = ForkedServer(env.fixtures, tracer)
        env.backend = RemoteBackend("127.0.0.1", env.server.port)
        resp = env.backend.dispatch(ToolRequest(0, "caption"))
        if not resp.ok and (resp.error or "").startswith("transport:"):
            env.close()
            raise RuntimeError(f"tool server unreachable: {resp.error}")
    else:
        mock = MockBackend(env.fixtures)
        if tracer is not None:
            tracer.wrap_backend(mock, "record_inner")
        path = work_dir / "recording.jsonl"
        recorder = RecordingBackend(mock, path)
        try:
            env.reference = run_grid(GRID, env, recorder, 1)
        finally:
            recorder.close()
        env.backend = ReplayBackend(path)
        env.counted = Counted(env.backend)
    return env


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    evals = GRID if w.grid else MOREVQA_ONLY
    tracer = Tracer() if trace else None
    cpus = os.sched_getaffinity(0)
    # Everything, the forked server included, runs on one CPU. Across CPUs
    # each tool round-trip waits for a cross-CPU wakeup, which on a shared
    # virtual machine made loopback throughput swing by a factor of two.
    os.sched_setaffinity(0, {max(cpus)})
    OUT_DIR.mkdir(exist_ok=True)
    report: dict = {"workload": w.name}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        setup_s: list[float] = []
        setup_totals: dict[str, list[float]] = {}
        env = None
        try:
            setup_end = time.perf_counter() + SETUP_SECONDS
            while len(setup_s) < SETUP_REPEATS or time.perf_counter() < setup_end:
                if env is not None:
                    env.close()
                    shutil.rmtree(env.dataset_dir)
                gc.collect()
                if tracer is not None:
                    tracer.install()
                started = time.perf_counter()
                try:
                    env = setup(w, seed, Path(tmp) / f"setup{len(setup_s)}", tracer)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                setup_s.append(time.perf_counter() - started)
            if tracer is not None:
                setup_totals = tracer.take()[0]
            if w.backend == "wire":
                mock = MockBackend(env.fixtures)
                env.reference = run_grid(GRID, env, mock, 1)
            if env.reference is not None:
                check(GRID, env.reference, None)
            report.update(timed_phase(w, evals, env, seconds, tracer))
            report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if env.server is not None:
                report["rss_mb"] += env.server.peak_rss_mb()
        finally:
            os.sched_setaffinity(0, cpus)
            server_report = env.close() if env is not None else None
    report["setup_s"] = slow_side(setup_s, False)
    report["server"] = server_report
    report["setup_totals"] = setup_totals
    report["setups"] = len(setup_s)
    report["recorded_items"] = (
        len(setup_s) * len(GRID) * len(env.items) if w.backend == "replay" else 0
    )
    report["missing"] = tracer.missing if tracer is not None else []
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"spans-{w.name}-seed{seed}.jsonl")
    return report


def timed_phase(w: Workload, evals, env: Env, seconds: float, tracer: Tracer | None) -> dict:
    passes = []
    pass_totals: dict[str, list[float]] = {}
    pass_counts: dict[str, float] = {}
    min_passes = 2 * MIN_PASSES if tracer is not None else MIN_PASSES
    # one untimed pass first, so lazy state and caches settle before timing
    warmup = run_grid(evals, env, env.backend, w.workers)
    if check(evals, warmup, env.reference):
        raise GateError("the warm-up pass differs from the in-process mock")
    calls_before = env.counted.calls if env.counted else 0
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
            tracer.wrap_backend(env.backend, "tools.backend", track_repeats=True,
                                wire=w.backend == "wire")
        try:
            cpu = time.process_time() + (env.server.cpu_s() if env.server else 0.0)
            started = time.perf_counter()
            outputs = run_grid(evals, env, env.backend, w.workers)
            wall = time.perf_counter() - started
            cpu = time.process_time() + (env.server.cpu_s() if env.server else 0.0) - cpu
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            tracer.collect()
        results = [res for batch in outputs for res in batch]
        item_ms = [res.timings_ms["total"] for res in results if "total" in res.timings_ms]
        passes.append({
            "traced": traced,
            "items": len(results),
            "wall": wall,
            "cpu": cpu,
            "p50": statistics.median(item_ms),
            "p90": percentile(item_ms, 90),
            "ok": sum(res.failure is None for res in results),
            "mismatched": check(evals, outputs, env.reference),
            "calls": (env.counted.calls if env.counted else 0) - calls_before,
        })
        calls_before += passes[-1]["calls"]
    if tracer is not None:
        pass_totals, pass_counts = tracer.take()
    return {"passes": passes, "pass_totals": pass_totals, "pass_counts": pass_counts,
            "evaluations": len(evals), "warmup_items": sum(len(batch) for batch in warmup)}


def slow_side(values, higher_is_better: bool) -> float:
    """The quartile of `values` on the slow side.

    This machine's CPU switches between two speeds about 1.6x apart within
    seconds, and the share of time spent at the fast one drifts from run to
    run, so a median over passes flips between the two. The slow-side
    quartile stays on the slow speed.
    """
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low if higher_is_better else high


def end_to_end(report: dict) -> dict[str, float]:
    passes = [p for p in report["passes"] if not p["traced"]]
    items = sum(p["items"] for p in report["passes"])
    calls = sum(p["calls"] for p in report["passes"])
    if report["server"] is not None:
        # the server also answered the warm-up pass
        calls = report["server"]["calls"] * items / (items + report["warmup_items"])
    return {
        "items_per_s": slow_side([p["items"] / p["wall"] for p in passes], True),
        "item_ms_p50": slow_side([p["p50"] for p in passes], False),
        "item_ms_p90": slow_side([p["p90"] for p in passes], False),
        "cpu_ms_per_item": slow_side([1000.0 * p["cpu"] / p["items"] for p in passes], False),
        "backend_calls_per_item": calls / items,
        "setup_s": report["setup_s"],
        "peak_rss_mb": report["rss_mb"],
        "ok_frac": sum(p["ok"] for p in report["passes"]) / items,
    }


def per_layer(w: Workload, report: dict) -> dict[str, float]:
    traced = [p for p in report["passes"] if p["traced"]]
    plain = [p for p in report["passes"] if not p["traced"]]
    items = sum(p["items"] for p in traced)
    totals = report["pass_totals"]
    counts = report["pass_counts"]
    setup_totals = report["setup_totals"]
    server = report["server"] or {}
    server_totals = server.get("totals", {})
    # the server served every pass and the warm-up
    server_items = sum(p["items"] for p in report["passes"]) + report["warmup_items"]

    def get(name, source=totals):
        return source.get(name, [0, 0.0, 0.0])

    def mean_ms(name, source=totals):
        count, total, _ = get(name, source)
        return total / count if count else 0.0

    backend = [get(f"tools.backend.{m}") for m in METHODS]
    backend_calls = sum(c for c, _, _ in backend)
    backend_ms = sum(t for _, t, _ in backend)
    item_ms = get("harness.item")[1]
    server_spans = [v for k, v in server_totals.items() if k.startswith("server.")]
    server_requests = sum(c for c, _, _ in server_spans)
    server_ms = sum(t for _, t, _ in server_spans) / server_requests if server_requests else 0.0
    remote_ms = backend_ms / backend_calls if w.backend == "wire" and backend_calls else 0.0
    untraced = slow_side([p["items"] / p["wall"] for p in plain], True)
    traced_rate = slow_side([p["items"] / p["wall"] for p in traced], True)

    m = {f"pipeline.{stage}_ms": mean_ms(f"pipeline.{stage}") for stage in
         ("event_parsing", "grounding", "reasoning", "context", "predict")}
    for name in ("parse", "render"):
        m[f"lang.{name}_calls"] = get(f"lang.{name}")[0] / items
        m[f"lang.{name}_ms"] = get(f"lang.{name}")[1] / items
    m["lang.interpret_ms"] = get("lang.interpret")[1] / items
    m["planner.rule_plan_ms"] = get("planner.rule_plan")[1] / items
    m["prompts.build_ms"] = get("prompts.build")[1] / items
    # on the wire, prompt parsing runs in the server, which served every pass
    m["prompts.parse_ms"] = (get("prompts.parse")[1] / items
                             + get("prompts.parse", server_totals)[1] / server_items)
    m["core.memory_snapshots"] = get("core.memory_snapshot")[0] / items
    m["core.memory_snapshot_ms"] = get("core.memory_snapshot")[1] / items
    m["tools.session_calls"] = get("tools.session")[0] / items
    m["tools.session_self_ms"] = get("tools.session")[2] / items
    for method, (count, total, _) in zip(METHODS, backend):
        m[f"tools.calls.{method}"] = count / items
        m[f"tools.ms.{method}"] = total / items
    m["tools.repeat_frac"] = counts.get("repeats", 0.0) / backend_calls if backend_calls else 0.0
    m["tools.remote_ms_per_call"] = remote_ms
    m["tools.remote_wait_ms_per_call"] = remote_ms - server_ms if remote_ms else 0.0
    m["tools.wire_bytes"] = counts.get("wire_bytes", 0.0) / items
    m["server.requests"] = server_requests / server_items
    # the set-up probe is the benchmark's own; run_eval sends the others
    m["server.probe_requests"] = (
        (server["probes"] - 1) / ((len(report["passes"]) + 1) * report["evaluations"])
        if server else 0.0
    )
    m["server.backend_ms_per_request"] = server_ms
    recorded = report["recorded_items"]
    m["tools.record_ms"] = get("tools.record", setup_totals)[2] / recorded if recorded else 0.0
    m["tools.replay_load_ms"] = mean_ms("tools.replay_load", setup_totals)
    m["tools.replay_ms_per_call"] = (
        backend_ms / backend_calls if w.backend == "replay" and backend_calls else 0.0
    )
    for name in ("jcef", "llm_only", "single_stage"):
        m[f"baselines.{name}_ms"] = mean_ms(f"baselines.{name}")
    m["harness.engine_ms"] = (item_ms - backend_ms) / items
    m["harness.tool_frac"] = backend_ms / item_ms if item_ms else 0.0
    m["corpus.build_ms"] = mean_ms("corpus.build", setup_totals)
    m["trace.untraced_items_per_s"] = untraced
    m["trace.traced_items_per_s"] = traced_rate
    m["trace.overhead_frac"] = 1.0 - traced_rate / untraced
    return m


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(name: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> tuple[dict, int]:
    """Run one workload and print its metrics; return (metrics, attempted).
    Raises GateError, before printing any metric, when an output is wrong."""
    w = WORKLOADS[name]
    report = run_workload(w, seed, seconds, trace)
    passes = report["passes"]
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["mismatched"] for p in passes)
    if failed:
        raise GateError(f"{name}: {failed} of {attempted} items differ from the in-process mock",
                        attempted, failed)
    calls = {p["calls"] for p in passes}
    if len(calls) > 1:
        print(f"warning: {name}: backend calls differ between passes: {sorted(calls)}; "
              "either a benchmark bug or state the program keeps across passes",
              file=sys.stderr)
    for target in report["missing"]:
        print(f"warning: {target} no longer exists; metrics timed from it read 0",
              file=sys.stderr)
    computed = per_layer(w, report) if trace else end_to_end(report)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] not in computed:
            print(f"warning: {name}: metric {entry['name']} is missing", file=sys.stderr)
        value = computed.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{name}/{entry['name']:<32} {value:>14.6g} {entry['unit']}")
    rates = [p["items"] / p["wall"] for p in passes if not p["traced"]]
    low, mid, high = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
    print(f"{name}: {len(passes)} passes ({len(rates)} untraced) of {passes[0]['items']} items, "
          f"{attempted} items, {report['setups']} set-ups; "
          f"untraced items/s per pass: quartiles {low:.1f} {mid:.1f} {high:.1f}, "
          f"range {min(rates):.1f}-{max(rates):.1f}")
    return metrics, attempted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            metrics, attempted = measure(name, args.seed, args.seconds, bool(args.trace), spec)
            result["attempted"] += attempted
            if len(names) > 1:
                metrics = {f"{name}/{k}": v for k, v in metrics.items()}
            result["metrics"].update(metrics)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": result["attempted"] + exc.attempted,
                          "failed": exc.failed, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
