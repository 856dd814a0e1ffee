"""Dataset ingestion, scoring, evaluation runs, ablations, and statistics.

Open-ended answers are scored by normalized string match (credit
min(matches/2, 1)); summaries label this metric `string-match` rather than
claiming equivalence with any judge-based protocol.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import ModuleType, NoneType
from typing import Any, Iterable, Mapping, NamedTuple

from . import baselines, pipeline
from .core import EvalItem, JcefConfig, QAItem, RunConfig, Settings, VideoMeta, expect_type
from .text import normalize_text
from .tools import RecordingBackend, RemoteBackend, ToolRequest, ToolSession, WorldFixture


class BackendUnreachable(Exception):
    pass


def _probe_remote(backend) -> None:
    """A deliberately invalid request: any non-transport reply proves the
    wire works."""
    resp = backend.dispatch(ToolRequest(0, "caption", None, None))
    if not resp.ok and (resp.error or "").startswith("transport:"):
        raise BackendUnreachable(resp.error)


class System(NamedTuple):
    """One row of the system table: the module and name of the system's
    runner, and whether the system needs a video."""

    module: ModuleType
    runner: str
    needs_video: bool


# Every runner takes (item, video or None, session, Settings) and returns an
# Outcome. A row names its runner, which is looked up on its module when an
# item runs, so that a wrapper bound in its place (a tracer, say) runs too.
SYSTEMS = {
    "morevqa": System(pipeline, "run_morevqa", True),
    "jcef": System(baselines, "run_jcef", True),
    "llm_only": System(baselines, "run_llm_only", False),
    "single_stage": System(baselines, "run_single_stage", True),
}

ABLATION_MASKS = (
    (False, False, False),
    (True, False, True),
    (True, True, False),
    (True, True, True),
)


class DatasetError(Exception):
    pass


@dataclass
class EvalResult:
    item: EvalItem
    predicted_answer: str
    mc_index: int | None
    correct: float
    pred_window_s: tuple[float, float] | None
    timings_ms: dict[str, float] = field(default_factory=dict)
    failure: dict[str, Any] | None = None
    trace: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        # timings are deliberately excluded: result files must be
        # byte-identical across reruns
        return {
            "video_id": self.item.video_id,
            "question": self.item.qa.question,
            "predicted_answer": self.predicted_answer,
            "mc_index": self.mc_index,
            "correct": self.correct,
            "pred_window_s": list(self.pred_window_s) if self.pred_window_s else None,
            "failure": self.failure,
        }


_ITEM_FIELDS = {
    "video_id", "question", "candidates", "answer_mc", "answer_open",
    "gt_window_s", "qtype", "subset", "program_path",
}


def _strings(value: Any, what: str) -> tuple[str, ...] | None:
    """A list of strings as a tuple, or None for null."""
    if value is None:
        return None
    for entry in expect_type(value, what, list):
        expect_type(entry, f"{what} entry", str)
    return tuple(value)


def _window(value: Any) -> tuple[float, float] | None:
    """Two finite numbers as a window, or None for null."""
    if value is None:
        return None
    if len(expect_type(value, "gt_window_s", list)) != 2:
        raise ValueError(f"gt_window_s must be a list of two numbers, got {value!r}")
    for bound in value:
        if not math.isfinite(expect_type(bound, "gt_window_s bound", int, float)):
            raise ValueError(f"gt_window_s bounds must be finite, got {value!r}")
    return tuple(value)


def _parse_item(obj: dict[str, Any], lineno: int) -> EvalItem:
    """One dataset row. Each field must have exactly its JSON type (strings,
    lists of strings, a non-bool int, finite numbers); nothing is coerced."""
    unknown = set(obj) - _ITEM_FIELDS
    if unknown:
        raise DatasetError(f"line {lineno}: unknown fields {sorted(unknown)}")
    if "video_id" not in obj or "question" not in obj:
        raise DatasetError(f"line {lineno}: video_id and question are required")
    has_mc = obj.get("answer_mc") is not None
    has_open = obj.get("answer_open") is not None
    if has_mc == has_open:
        raise DatasetError(f"line {lineno}: exactly one of answer_mc/answer_open is required")
    try:
        qa = QAItem(
            question=expect_type(obj["question"], "question", str),
            candidates=_strings(obj.get("candidates"), "candidates"),
            answer_mc=expect_type(obj.get("answer_mc"), "answer_mc", int, NoneType),
            answer_open=_strings(obj.get("answer_open"), "answer_open"),
            gt_window_s=_window(obj.get("gt_window_s")),
        )
        return EvalItem(
            video_id=expect_type(obj["video_id"], "video_id", str),
            qa=qa,
            qtype_label=expect_type(obj.get("qtype"), "qtype", str, NoneType),
            subset=expect_type(obj.get("subset"), "subset", str, NoneType),
            program_path=expect_type(obj.get("program_path"), "program_path", str, NoneType),
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise DatasetError(f"line {lineno}: {exc}") from exc


def load_dataset(path: str | Path, lenient: bool = False) -> list[EvalItem]:
    """Parse a JSONL dataset. Malformed lines, bytes that are not UTF-8
    among them, are fatal unless lenient."""
    items: list[EvalItem] = []
    skipped: list[str] = []
    # an undecodable byte reads as a lone surrogate, which then fails to encode
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                try:
                    line.encode("utf-8")
                    obj = json.loads(line)
                except UnicodeEncodeError:
                    raise DatasetError(f"line {lineno}: not UTF-8") from None
                except (ValueError, RecursionError) as exc:
                    raise DatasetError(f"line {lineno}: {exc}") from exc
                if not isinstance(obj, dict):
                    raise DatasetError(f"line {lineno}: expected a JSON object")
                items.append(_parse_item(obj, lineno))
            except DatasetError as exc:
                if lenient:
                    skipped.append(str(exc))
                else:
                    raise
    for message in skipped:
        print(f"skipping malformed dataset line: {message}", file=sys.stderr)
    return items


# --- scoring ---

def score_mc(pred_index: int | None, gt_index: int) -> int:
    return int(pred_index == gt_index)


def score_open_ended(pred_text: str, gt_answers: Iterable[str]) -> float:
    """Credit min(matches/2, 1) over normalized exact matches."""
    gt = list(gt_answers)
    if not gt:
        raise ValueError("gt_answers must be non-empty")
    pred = normalize_text(pred_text)
    matches = sum(1 for answer in gt if normalize_text(answer) == pred)
    return min(matches / 2.0, 1.0)


def interval_iou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Intersection over union of two seconds intervals (set measure)."""
    (a0, a1), (b0, b1) = a, b
    if a0 > a1 or b0 > b1:
        raise ValueError("intervals must satisfy start <= end")
    inter = max(0.0, min(a1, b1) - max(a0, b0))
    union = (a1 - a0) + (b1 - b0) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def interval_iop(pred: tuple[float, float], gt: tuple[float, float]) -> float:
    """Intersection over the prediction's own length."""
    (p0, p1), (g0, g1) = pred, gt
    if p0 > p1 or g0 > g1:
        raise ValueError("intervals must satisfy start <= end")
    length = p1 - p0
    if length <= 0.0:
        return 0.0
    inter = max(0.0, min(p1, g1) - max(p0, g0))
    return inter / length


@dataclass(frozen=True)
class GroundedMetrics:
    m_iop: float
    iop_at_05: float
    m_iou: float
    iou_at_05: float
    acc_at_gqa: float

    def to_json_dict(self) -> dict[str, float]:
        return {
            "mIoP": self.m_iop,
            "IoP@0.5": self.iop_at_05,
            "mIoU": self.m_iou,
            "IoU@0.5": self.iou_at_05,
            "Acc@GQA": self.acc_at_gqa,
        }


def grounded_qa_metrics(results: list[EvalResult]) -> GroundedMetrics:
    """Aggregate grounding quality; every result needs both windows."""
    if not results:
        raise ValueError("no results to aggregate")
    iops: list[float] = []
    ious: list[float] = []
    gqa: list[float] = []
    for res in results:
        if res.pred_window_s is None or res.item.qa.gt_window_s is None:
            raise ValueError(
                f"missing prediction or ground-truth window for {res.item.video_id}"
            )
        iop = interval_iop(res.pred_window_s, res.item.qa.gt_window_s)
        iou = interval_iou(res.pred_window_s, res.item.qa.gt_window_s)
        iops.append(iop)
        ious.append(iou)
        gqa.append(res.correct if iop >= 0.5 else 0.0)
    n = len(results)
    return GroundedMetrics(
        m_iop=sum(iops) / n,
        iop_at_05=sum(1 for v in iops if v >= 0.5) / n,
        m_iou=sum(ious) / n,
        iou_at_05=sum(1 for v in ious if v >= 0.5) / n,
        acc_at_gqa=sum(gqa) / n,
    )


# --- per-item execution ---

def _score_item(item: EvalItem, answer: str, mc_index: int | None) -> float:
    if item.qa.answer_mc is not None:
        return float(score_mc(mc_index, item.qa.answer_mc))
    if item.qa.answer_open is not None:
        return score_open_ended(answer, item.qa.answer_open)
    return 0.0


def _system(system: str) -> System:
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {tuple(SYSTEMS)}")
    return SYSTEMS[system]


def run_item(
    system: str,
    item: EvalItem,
    video: VideoMeta | None,
    backend,
    run_config: RunConfig,
    jcef_config: JcefConfig,
    dataset_dir: Path | None = None,
    planner=None,
) -> EvalResult:
    """Evaluate one item with a fresh tool session."""
    row = _system(system)
    if video is None and row.needs_video:
        raise ValueError(f"system {system!r} needs video metadata")
    settings = Settings(run_config, jcef_config, dataset_dir, planner)
    started = time.perf_counter()
    outcome = getattr(row.module, row.runner)(item, video, ToolSession(backend), settings)
    timings = outcome.timings_ms
    timings["total"] = (time.perf_counter() - started) * 1000.0
    failure = outcome.failure
    return EvalResult(
        item=item,
        predicted_answer=outcome.answer,
        mc_index=outcome.mc_index,
        correct=0.0 if failure else _score_item(item, outcome.answer, outcome.mc_index),
        pred_window_s=outcome.pred_window_s,
        timings_ms=timings,
        failure=failure,
        trace=outcome.trace,
    )


def _video_meta_for(item: EvalItem, fixtures: Mapping[str, WorldFixture]) -> VideoMeta:
    if item.video_id not in fixtures:
        raise DatasetError(f"video {item.video_id!r} not found in the fixture corpus")
    return fixtures[item.video_id].video_meta()


def summarize(system: str, results: list[EvalResult]) -> dict[str, Any]:
    n = len(results)
    accuracy = sum(r.correct for r in results) / n if n else 0.0
    per_subset: dict[str, list[float]] = {}
    for res in results:
        if res.item.subset:
            per_subset.setdefault(res.item.subset, []).append(res.correct)
    failures = [r for r in results if r.failure]
    failures_by_kind: dict[str, int] = {}
    for res in failures:
        kind = res.failure.get("kind", "unknown")
        failures_by_kind[kind] = failures_by_kind.get(kind, 0) + 1
    summary: dict[str, Any] = {
        "system": system,
        "items": n,
        "accuracy": accuracy,
        "per_subset": {
            name: sum(vals) / len(vals) for name, vals in sorted(per_subset.items())
        },
        "failure_rate": len(failures) / n if n else 0.0,
        "failures_by_kind": dict(sorted(failures_by_kind.items())),
    }
    if any(r.item.qa.answer_open is not None for r in results):
        summary["open_ended_metric"] = "string-match"
    groundable = [
        r for r in results if r.pred_window_s is not None and r.item.qa.gt_window_s is not None
    ]
    if groundable:
        summary["grounded"] = grounded_qa_metrics(groundable).to_json_dict()
    return summary


def run_eval(
    items: list[EvalItem],
    system: str,
    backend,
    fixtures: Mapping[str, WorldFixture],
    run_config: RunConfig | None = None,
    jcef_config: JcefConfig | None = None,
    out_dir: str | Path | None = None,
    workers: int = 1,
    dataset_dir: str | Path | None = None,
    planner=None,
) -> tuple[list[EvalResult], dict[str, Any]]:
    """Evaluate every item; write results, summary, traces, timings."""
    needs_video = _system(system).needs_video
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    run_config = run_config or RunConfig()
    jcef_config = jcef_config or JcefConfig()
    dataset_dir = Path(dataset_dir) if dataset_dir is not None else None
    # `eval --record` wraps the client: probe the client itself, so that
    # the probe is never recorded
    client = backend.inner if isinstance(backend, RecordingBackend) else backend
    if isinstance(client, RemoteBackend):
        _probe_remote(client)

    def one(item: EvalItem) -> EvalResult:
        try:
            video = _video_meta_for(item, fixtures) if needs_video else None
            return run_item(
                system, item, video, backend, run_config, jcef_config, dataset_dir, planner
            )
        except Exception as exc:  # per-item failures are recorded, not fatal
            failure = {"kind": "item_error", "error_type": type(exc).__name__,
                       "message": str(exc)}
            return EvalResult(
                item=item,
                predicted_answer="",
                mc_index=None,
                correct=0.0,
                pred_window_s=None,
                failure=failure,
                trace={"system": system, "video_id": item.video_id,
                       "question": item.qa.question, "failure": failure},
            )

    # The caller and `workers - 1` threads each claim the next unclaimed
    # index; writing results[idx] keeps dataset order. With one worker no
    # thread starts.
    results: list[EvalResult | None] = [None] * len(items)
    pending = iter(range(len(items)))
    claim_lock = threading.Lock()
    escaped: list[BaseException] = []

    def work() -> None:
        while not escaped:
            with claim_lock:
                idx = next(pending, None)
            if idx is None:
                return
            try:
                results[idx] = one(items[idx])
            except BaseException as exc:  # `one` keeps every Exception; this stops all claims
                escaped.append(exc)
                return

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    try:
        for thread in threads:
            thread.start()
        work()
    except BaseException as exc:  # a thread failed to start, or an interrupt: stop the rest
        escaped.append(exc)
    finally:
        for thread in threads:
            if thread.is_alive():
                thread.join()
    if escaped:
        raise escaped[0]

    summary = summarize(system, results)
    if out_dir is not None:
        write_eval_outputs(Path(out_dir), results, summary)
    return results, summary


def write_eval_outputs(out_dir: Path, results: list[EvalResult], summary: dict[str, Any]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.jsonl", "w", encoding="utf-8") as fh:
        for res in results:
            fh.write(json.dumps(res.to_json_dict()) + "\n")
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    with open(out_dir / "timings.jsonl", "w", encoding="utf-8") as fh:
        for res in results:
            fh.write(
                json.dumps({"video_id": res.item.video_id, "timings_ms": res.timings_ms}) + "\n"
            )
    traces = out_dir / "traces"
    traces.mkdir(exist_ok=True)
    for idx, res in enumerate(results):
        with open(traces / f"{idx:04d}_{res.item.video_id}.json", "w", encoding="utf-8") as fh:
            json.dump(res.trace, fh, indent=2)
            fh.write("\n")


def run_ablation(
    items: list[EvalItem],
    backend,
    fixtures: Mapping[str, WorldFixture],
    run_config: RunConfig | None = None,
    out_path: str | Path | None = None,
    workers: int = 1,
) -> list[tuple[tuple[bool, bool, bool], float]]:
    """Evaluate the stage grid and emit (mask, accuracy) rows."""
    run_config = run_config or RunConfig()
    rows: list[tuple[tuple[bool, bool, bool], float]] = []
    for mask in ABLATION_MASKS:
        config = replace(run_config, stage_mask=mask)
        _, summary = run_eval(
            items, "morevqa", backend, fixtures, run_config=config, workers=workers
        )
        rows.append((mask, summary["accuracy"]))
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("m1,m2,m3,accuracy\n")
            for mask, accuracy in rows:
                bits = ",".join(str(int(b)) for b in mask)
                fh.write(f"{bits},{accuracy:.6f}\n")
    return rows


# --- statistics ---

def trace_qtype(trace: Any) -> tuple[str, str]:
    """The question type and conjunction that a run trace's event-parsing
    stage left in memory, `other` and `none` where unset. ValueError for a
    trace with no such memory."""
    if not isinstance(trace, dict):
        raise ValueError("trace is not a JSON object")
    records = trace.get("stage_records")
    if not isinstance(records, list) or not records:
        raise ValueError("trace lacks stage records")
    memory = records[0].get("memory_after") if isinstance(records[0], dict) else None
    if not isinstance(memory, dict):
        raise ValueError("first stage record's memory_after is not an object")
    qa_type, conjunction = memory.get("qa_type", "other"), memory.get("conjunction", "none")
    if not (isinstance(qa_type, str) and isinstance(conjunction, str)):
        raise ValueError("memory_after's qa_type and conjunction must be strings")
    return qa_type, conjunction


def qtype_stats(
    traces: list[dict[str, Any]], labels: list[str] | None = None
) -> dict[str, Any]:
    """Distributions of parsed question types and conjunction presence.

    Reads the event-parsing stage's memory from run traces. With dataset
    labels, also emits a label-against-prediction agreement table.
    """
    if not traces:
        raise ValueError("no traces given")
    qa_counts: dict[str, int] = {}
    conj_present = 0
    predictions: list[str] = []
    for trace in traces:
        qa_type, conjunction = trace_qtype(trace)
        predictions.append(qa_type)
        qa_counts[qa_type] = qa_counts.get(qa_type, 0) + 1
        if conjunction != "none":
            conj_present += 1
    n = len(traces)
    stats: dict[str, Any] = {
        "count": n,
        "qa_type": {name: count / n for name, count in sorted(qa_counts.items())},
        "conjunction": {"present": conj_present / n, "absent": (n - conj_present) / n},
    }
    if labels is not None:
        if len(labels) != n:
            raise ValueError("labels and traces must align")
        matrix: dict[str, dict[str, int]] = {}
        agree = 0
        for label, pred in zip(labels, predictions):
            row = matrix.setdefault(label, {})
            row[pred] = row.get(pred, 0) + 1
            if label == pred:
                agree += 1
        stats["agreement"] = {
            "diagonal": agree / n,
            "matrix": {k: dict(sorted(v.items())) for k, v in sorted(matrix.items())},
        }
    return stats
