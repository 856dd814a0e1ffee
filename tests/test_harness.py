from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import re
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from morevqa.baselines import JcefConfig
from morevqa.cli import main
from morevqa.core import QAItem, RunConfig, Settings
from morevqa.pipeline import LlmBackedPlanner
from morevqa.tools import (
    RecordingBackend,
    ReplayBackend,
    ToolRequest,
    ToolResponse,
    validate_result_shape,
)
from morevqa.harness import (
    SYSTEMS,
    DatasetError,
    EvalItem,
    EvalResult,
    grounded_qa_metrics,
    interval_iop,
    interval_iou,
    load_dataset,
    qtype_stats,
    read_traces,
    run_ablation,
    run_eval,
    run_item,
    score_mc,
    score_open_ended,
    summarize,
    write_eval_outputs,
)


def _write_dataset(tmp_path, lines):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_dataset_mc_and_open(tmp_path):
    path = _write_dataset(
        tmp_path,
        [
            json.dumps(
                {
                    "video_id": "v0",
                    "question": "q?",
                    "candidates": ["a", "b", "c", "d", "e"],
                    "answer_mc": 3,
                }
            ),
            json.dumps(
                {
                    "video_id": "v1",
                    "question": "q2?",
                    "answer_open": ["x", "x", "y", "z", "x"],
                }
            ),
        ],
    )
    items = load_dataset(path)
    assert items[0].qa.answer_mc == 3 and 0 <= items[0].qa.answer_mc < 5
    assert len(items[1].qa.answer_open) == 5


def test_load_dataset_strict_vs_lenient(tmp_path):
    path = _write_dataset(
        tmp_path,
        [
            json.dumps({"video_id": "v0", "question": "q?", "answer_mc": 0,
                        "candidates": ["a"]}),
            json.dumps({"video_id": "v1", "question": "missing answers"}),
        ],
    )
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert "line 2" in str(err.value)
    items = load_dataset(path, lenient=True)
    assert len(items) == 1


_MC_ROW = {"video_id": "v0", "question": "q?", "candidates": ["a", "b"], "answer_mc": 0}


@pytest.mark.parametrize("row, complaint", [
    ({**_MC_ROW, "question": 5}, "question must be str"),
    ({**_MC_ROW, "video_id": ["v"]}, "video_id must be str"),
    ({**_MC_ROW, "answer_mc": True}, "answer_mc must be int or null"),
    ({**_MC_ROW, "gt_window_s": [float("nan"), 3]}, "gt_window_s bounds must be finite"),
    ({**_MC_ROW, "gt_window_s": [1, 2, 3]}, "gt_window_s must be a list of two numbers"),
    ({**_MC_ROW, "gt_window_s": [1, "2"]}, "gt_window_s bound must be int or float"),
    ({**_MC_ROW, "candidates": "abc"}, "candidates must be list"),
    ({**_MC_ROW, "candidates": ["a", 5]}, "candidates entry must be str"),
    ({"video_id": "v0", "question": "q?", "answer_open": "abc"}, "answer_open must be list"),
    ({**_MC_ROW, "qtype": 5}, "qtype must be str or null"),
    ({**_MC_ROW, "program_path": ["p"]}, "program_path must be str or null"),
    ({"video_id": "v0", "question": "q?", "answer_open": []}, "answer_open must be non-empty"),
    ({**_MC_ROW, "candidates": []}, "candidates must be non-empty"),
    ({**_MC_ROW, "gt_window_s": []}, "gt_window_s must be a list of two numbers"),
], ids=["int-question", "list-video-id", "bool-answer-mc", "nan-window", "long-window",
        "string-window-bound", "string-candidates", "int-candidate", "string-answer-open",
        "int-qtype", "list-program-path", "empty-answer-open", "empty-candidates",
        "empty-window"])
def test_wrong_typed_dataset_field_is_dataset_error(tmp_path, row, complaint):
    path = _write_dataset(tmp_path, [json.dumps(_MC_ROW), json.dumps(row)])
    with pytest.raises(DatasetError, match=f"^line 2: {complaint}"):
        load_dataset(path)
    assert len(load_dataset(path, lenient=True)) == 1


def test_non_utf8_dataset_line_is_dataset_error(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(json.dumps(_MC_ROW).encode() + b'\n{"question": "caf\xe9"}\n')
    with pytest.raises(DatasetError, match="^line 2: not UTF-8$"):
        load_dataset(path)
    assert len(load_dataset(path, lenient=True)) == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
_ROW_LIKE = st.fixed_dictionaries(
    {"video_id": st.just("v000") | _JSON, "question": st.just("what?") | _JSON},
    optional={
        "candidates": st.lists(st.sampled_from(["a", "b"]), max_size=3) | _JSON,
        "answer_mc": st.integers(-1, 3) | _JSON,
        "answer_open": st.lists(st.just("a"), max_size=2) | _JSON,
        "gt_window_s": st.lists(st.floats(), max_size=3) | _JSON,
        "qtype": _JSON,
        "subset": _JSON,
        "program_path": _JSON,
    },
)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("datasets")


@settings(deadline=None)
@given(st.lists(st.binary(max_size=16) | _ROW_LIKE.map(lambda row: json.dumps(row).encode()),
                max_size=4))
def test_any_dataset_bytes_load_or_raise_dataset_error(scratch_dir, oracle_dir, lines):
    path = scratch_dir / "data.jsonl"
    path.write_bytes(b"\n".join(lines))
    try:
        load_dataset(path)
    except DatasetError as exc:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["eval", "--dataset", str(path), "--system", "morevqa",
                       "--backend", f"mock:{oracle_dir / 'fixtures'}"])
        assert rc == 2
        assert err.getvalue() == f"error: {exc}\n"


def test_score_mc():
    assert score_mc(2, 2) == 1
    assert score_mc(0, 3) == 0
    preds = [(i, 0) for i in [0, 0, 0, 0, 0, 0, 0, 1, 2, 3]]
    assert sum(score_mc(p, g) for p, g in preds) / len(preds) == 0.7


def test_score_open_ended_credit_rule():
    gts = ["cat", "cat", "cat", "dog", "bird"]
    assert score_open_ended("cat", gts) == 1.0
    assert score_open_ended("dog", gts) == 0.5
    assert score_open_ended("fish", gts) == 0.0
    assert score_open_ended("  CAT ", gts) == 1.0  # normalization applies


def test_interval_metrics_examples():
    assert interval_iou((0, 10), (0, 10)) == 1.0
    assert interval_iop((0, 10), (0, 10)) == 1.0
    assert interval_iop((0, 10), (5, 10)) == 0.5
    assert interval_iou((0, 10), (5, 10)) == 0.5
    assert interval_iou((0, 1), (2, 3)) == 0.0
    assert interval_iop((0, 1), (2, 3)) == 0.0
    assert interval_iou((1, 1), (1, 1)) == 0.0  # both degenerate
    assert interval_iop((1, 1), (0, 5)) == 0.0  # zero-length prediction


@given(
    st.tuples(st.floats(0, 100), st.floats(0, 100)).map(sorted),
    st.tuples(st.floats(0, 100), st.floats(0, 100)).map(sorted),
)
def test_interval_subset_properties(pred, gt):
    pred, gt = tuple(pred), tuple(gt)
    if pred[1] - pred[0] > 0 and gt[0] <= pred[0] and pred[1] <= gt[1]:
        assert interval_iop(pred, gt) == pytest.approx(1.0)
    if gt[0] >= pred[0] and gt[1] <= pred[1] and pred[1] - pred[0] > 0:
        expected = (gt[1] - gt[0]) / (pred[1] - pred[0])
        assert interval_iou(pred, gt) == pytest.approx(expected)


def _result(credit, pred, gt, video="v"):
    qa = QAItem(question="q?", candidates=("a",), answer_mc=0, gt_window_s=gt)
    item = EvalItem(video_id=video, qa=qa)
    return EvalResult(
        item=item, predicted_answer="a", mc_index=0, correct=credit, pred_window_s=pred
    )


def test_grounded_metrics_perfect():
    results = [_result(1.0, (0.0, 5.0), (0.0, 5.0)) for _ in range(4)]
    metrics = grounded_qa_metrics(results)
    assert metrics.to_json_dict() == {
        "mIoP": 1.0, "IoP@0.5": 1.0, "mIoU": 1.0, "IoU@0.5": 1.0, "Acc@GQA": 1.0,
    }


def test_grounded_metrics_two_item_example():
    # one correct with IoP 0.6, one incorrect with IoP 0.9
    results = [
        _result(1.0, (0.0, 10.0), (4.0, 10.0)),   # IoP = 0.6
        _result(0.0, (0.0, 10.0), (1.0, 10.0)),   # IoP = 0.9
    ]
    metrics = grounded_qa_metrics(results)
    assert metrics.acc_at_gqa == 0.5
    assert metrics.iop_at_05 == 1.0


def test_grounded_metrics_invariant_random_sets():
    rng = random.Random(5)
    for _ in range(100):
        results = []
        for _ in range(rng.randint(1, 20)):
            credit = rng.choice([0.0, 0.5, 1.0])
            p0 = rng.uniform(0, 50)
            p1 = p0 + rng.uniform(0.1, 20)
            g0 = rng.uniform(0, 50)
            g1 = g0 + rng.uniform(0.1, 20)
            results.append(_result(credit, (p0, p1), (g0, g1)))
        metrics = grounded_qa_metrics(results)
        accuracy = sum(r.correct for r in results) / len(results)
        assert metrics.acc_at_gqa <= min(accuracy, metrics.iop_at_05) + 1e-12


def test_grounded_metrics_missing_window_raises():
    with pytest.raises(ValueError):
        grounded_qa_metrics([_result(1.0, None, (0.0, 1.0))])


# --- eval runs over the oracle corpus ---

def _items(oracle_dir):
    return load_dataset(oracle_dir / "dataset.jsonl")


def test_run_eval_summary_recomputes_accuracy(oracle_dir, oracle_bundle, mock_backend):
    items = _items(oracle_dir)
    results, summary = run_eval(items, "morevqa", mock_backend, oracle_bundle.fixtures)
    assert summary["items"] == len(items)
    assert summary["accuracy"] == pytest.approx(
        sum(r.correct for r in results) / len(results)
    )
    assert summary["open_ended_metric"] == "string-match"


def test_run_eval_failures_scored_zero(oracle_dir, oracle_bundle, mock_backend):
    items = _items(oracle_dir)
    results, summary = run_eval(
        items, "single_stage", mock_backend, oracle_bundle.fixtures, dataset_dir=oracle_dir
    )
    failed = [r for r in results if r.failure]
    assert failed and all(r.correct == 0.0 for r in failed)
    assert summary["failure_rate"] == pytest.approx(len(failed) / len(items))
    assert "missing_program" in summary["failures_by_kind"]
    assert "runtime_unbound" in summary["failures_by_kind"]


_DEEP_PROGRAM = "".join("    " * i + "if true:\n" for i in range(400)) + "    " * 400 + "return 1\n"


@pytest.mark.parametrize("content, kind, message", [
    (None, "missing_program", "No such file"),
    (b"\xff\xfe#mode=extended\nreturn 1\n", "missing_program", "can't decode"),
    (_DEEP_PROGRAM.encode(), "parse_error", "block nesting too deep"),
], ids=["unreadable", "not-utf8", "nested-400"])
def test_single_stage_program_file_failures_are_typed(
    tmp_path, oracle_dir, oracle_bundle, mock_backend, content, kind, message
):
    if content is not None:
        (tmp_path / "prog.mvp").write_bytes(content)
    item = dataclasses.replace(_items(oracle_dir)[0], program_path="prog.mvp")
    results, summary = run_eval(
        [item], "single_stage", mock_backend, oracle_bundle.fixtures, dataset_dir=tmp_path
    )
    assert summary["failures_by_kind"] == {kind: 1}
    assert message in results[0].failure["message"]
    assert results[0].correct == 0.0


def test_replay_miss_fails_the_item_with_its_error_type(
    oracle_dir, oracle_bundle, mock_backend, tmp_path
):
    items = _items(oracle_dir)[:2]
    recorder = RecordingBackend(mock_backend, tmp_path / "rec.jsonl")
    try:
        run_eval(items[:1], "morevqa", recorder, oracle_bundle.fixtures)
    finally:
        recorder.close()
    results, summary = run_eval(
        items, "morevqa", ReplayBackend(tmp_path / "rec.jsonl"), oracle_bundle.fixtures
    )
    assert results[0].failure is None
    failure = results[1].failure
    assert failure["kind"] == "item_error"
    assert failure["error_type"] == "ReplayMissError"
    assert failure["message"].startswith("replay miss:")
    assert results[1].trace["failure"] == failure
    assert results[1].correct == 0.0
    assert summary["failures_by_kind"] == {"item_error": 1}


def test_run_eval_permutation_leaves_aggregates(oracle_dir, oracle_bundle, mock_backend):
    items = _items(oracle_dir)
    shuffled = list(items)
    random.Random(3).shuffle(shuffled)
    _, summary_a = run_eval(items, "jcef", mock_backend, oracle_bundle.fixtures)
    _, summary_b = run_eval(shuffled, "jcef", mock_backend, oracle_bundle.fixtures)
    assert summary_a["accuracy"] == summary_b["accuracy"]
    assert summary_a["per_subset"] == summary_b["per_subset"]


def _sequential(items, system, backend, fixtures):
    """The reference: one `run_item` after another, outside `run_eval`."""
    return [run_item(system, item, fixtures[item.video_id].video_meta(), backend, Settings())
            for item in items]


def _output_bytes(out_dir):
    paths = [out_dir / "results.jsonl", out_dir / "summary.json", out_dir / "traces.jsonl"]
    return {path.relative_to(out_dir): path.read_bytes() for path in paths}


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_run_eval_workers_match_sequential(oracle_dir, oracle_bundle, mock_backend, tmp_path,
                                           workers):
    items = _items(oracle_dir)[:10]
    seq = _sequential(items, "morevqa", mock_backend, oracle_bundle.fixtures)
    write_eval_outputs(tmp_path / "seq", seq, summarize("morevqa", seq))
    par, _ = run_eval(items, "morevqa", mock_backend, oracle_bundle.fixtures,
                      out_dir=tmp_path / "par", workers=workers)
    assert [r.to_json_dict() for r in seq] == [r.to_json_dict() for r in par]
    assert _output_bytes(tmp_path / "seq") == _output_bytes(tmp_path / "par")


def test_run_eval_starts_no_thread_beyond_its_items(oracle_dir, oracle_bundle, mock_backend,
                                                    monkeypatch):
    """64 workers over 3 items: the caller and 2 threads claim all 3."""
    made = []

    class _Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    items = _items(oracle_dir)[:3]
    monkeypatch.setattr(threading, "Thread", _Counted)
    results, _ = run_eval(items, "morevqa", mock_backend, oracle_bundle.fixtures, workers=64)
    monkeypatch.undo()
    assert len(made) <= 2
    seq = _sequential(items, "morevqa", mock_backend, oracle_bundle.fixtures)
    assert [r.to_json_dict() for r in results] == [r.to_json_dict() for r in seq]


@pytest.mark.parametrize("workers", [1, 4])
def test_out_dir_holds_one_trace_line_per_item(oracle_dir, oracle_bundle, mock_backend, tmp_path,
                                               workers):
    results, _ = run_eval(_items(oracle_dir), "morevqa", mock_backend, oracle_bundle.fixtures,
                          out_dir=tmp_path, workers=workers)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "results.jsonl", "summary.json", "timings.jsonl", "traces.jsonl"]
    lines = (tmp_path / "traces.jsonl").read_text(encoding="utf-8").split("\n")
    assert lines == [json.dumps(res.trace) for res in results] + [""]
    assert read_traces(tmp_path / "traces.jsonl") == [res.trace for res in results]


@pytest.mark.parametrize("content, complaint", [
    (b"\xff{}\n", "codec can't decode"),
    (b"{not json\n", "Expecting property name"),
    (b"\n", "Expecting value"),
    (b"[1]\n", "trace is not a JSON object"),
], ids=["not-utf8", "not-json", "blank", "json-array"])
def test_read_traces_names_the_bad_line(tmp_path, content, complaint):
    path = tmp_path / "traces.jsonl"
    path.write_bytes(b"{}\n" + content)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: .*{complaint}"):
        read_traces(path)


@pytest.mark.parametrize("workers", [0, -2])
def test_run_eval_rejects_fewer_than_one_worker(oracle_dir, oracle_bundle, mock_backend,
                                               workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_eval(_items(oracle_dir), "morevqa", mock_backend, oracle_bundle.fixtures,
                 workers=workers)


def _within(timeout_s, fn):
    """Run `fn` on a daemon thread joined with a timeout, so a hung call
    fails the test and does not block exit; return {"value": ...} or
    {"raised": ...}."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:
            outcome["raised"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"still running after {timeout_s} s"
    return outcome


class _Escape(BaseException):
    """Not an Exception, so `run_eval`'s per-item catch lets it through."""


class _EscapingBackend:
    """Raises `_Escape` from every dispatch and counts the dispatches."""

    def __init__(self):
        self.lock = threading.Lock()
        self.calls = 0

    def dispatch(self, req):
        with self.lock:
            self.calls += 1
        raise _Escape(req.video_id)


@pytest.mark.parametrize("workers", [1, 4])
def test_run_eval_reraises_an_escaped_exception_after_joining(oracle_dir, oracle_bundle,
                                                              workers):
    backend = _EscapingBackend()
    before = threading.active_count()
    outcome = _within(60, lambda: run_eval(_items(oracle_dir), "morevqa", backend,
                                           oracle_bundle.fixtures, workers=workers))
    assert isinstance(outcome.get("raised"), _Escape)
    # each item raises on its first dispatch, and a thread that saw an escape
    # claims no more items, so at most one item per worker was started
    assert 1 <= backend.calls <= workers
    assert threading.active_count() == before


class _CompleteCounter:
    """Counts `complete` requests per video over a shared inner backend."""

    def __init__(self, inner):
        self.inner = inner
        self.lock = threading.Lock()
        self.completes = Counter()

    def dispatch(self, req):
        if req.method == "complete":
            with self.lock:
                self.completes[req.video_id] += 1
        return self.inner.dispatch(req)


def test_run_eval_claims_each_item_once_under_contention(oracle_dir, oracle_bundle,
                                                         mock_backend):
    items = _items(oracle_dir)
    seq = _sequential(items, "morevqa", mock_backend, oracle_bundle.fixtures)
    backend = _CompleteCounter(mock_backend)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcome = _within(120, lambda: run_eval(items, "morevqa", backend,
                                                oracle_bundle.fixtures, workers=8))
    finally:
        sys.setswitchinterval(interval)
    assert "raised" not in outcome
    # the rule planner sends one `complete` per item, its prediction: a lost
    # claim leaves a video uncounted, a doubled one counts it twice
    assert backend.completes == Counter(item.video_id for item in items)
    par, _ = outcome["value"]
    assert [r.to_json_dict() for r in par] == [r.to_json_dict() for r in seq]


def test_run_ablation_rows(oracle_dir, oracle_bundle, mock_backend, tmp_path):
    items = _items(oracle_dir)
    out_csv = tmp_path / "ablation.csv"
    rows = run_ablation(items, mock_backend, oracle_bundle.fixtures, out_path=out_csv)
    assert len(rows) == 4
    masks = [mask for mask, _ in rows]
    assert masks == [
        (False, False, False), (True, False, True), (True, True, False), (True, True, True),
    ]
    accs = dict(zip(masks, (acc for _, acc in rows)))
    assert accs[(True, True, True)] >= accs[(False, False, False)]
    text = out_csv.read_text(encoding="utf-8")
    assert text.startswith("m1,m2,m3,accuracy\n")
    assert len(text.strip().split("\n")) == 5


def test_ablation_all_off_equals_matched_jcef(oracle_dir, oracle_bundle, mock_backend):
    # same sampled frames: 16 of 32 uniformly == a half-fraction caption run
    items = _items(oracle_dir)
    config = RunConfig(stage_mask=(False, False, False), n_context_frames=16)
    _, morevqa_summary = run_eval(
        items, "morevqa", mock_backend, oracle_bundle.fixtures, run_config=config
    )
    _, jcef_summary = run_eval(
        items, "jcef", mock_backend, oracle_bundle.fixtures,
        jcef_config=JcefConfig(frame_fraction=0.5),
    )
    assert morevqa_summary["accuracy"] == pytest.approx(jcef_summary["accuracy"])


def test_qtype_stats_counts():
    traces = []
    for qa_type in ["why"] * 4 + ["what"] * 6:
        traces.append(
            {
                "stage_records": [
                    {"memory_after": {"qa_type": qa_type, "conjunction": "none"}}
                ]
            }
        )
    stats = qtype_stats(traces)
    assert stats["qa_type"]["why"] == pytest.approx(0.4)
    assert sum(stats["qa_type"].values()) == pytest.approx(1.0, abs=1e-12)
    assert stats["conjunction"]["present"] == 0.0


def test_qtype_stats_leaves_out_traces_without_stage_records():
    parsed = {"stage_records": [{"memory_after": {"qa_type": "why", "conjunction": "and"}}]}
    traces = [parsed, {"system": "jcef"}, {"stage_records": []}, parsed]
    stats = qtype_stats(traces, labels=["why", "what", "when", "what"])
    assert stats["count"] == 4 and stats["unparsed"] == 2
    assert stats["qa_type"] == {"why": 1.0}
    assert stats["conjunction"] == {"present": 1.0, "absent": 0.0}
    assert stats["agreement"] == {
        "diagonal": 0.5, "matrix": {"what": {"why": 1}, "why": {"why": 1}}}
    with pytest.raises(ValueError, match="no trace holds"):
        qtype_stats(traces[1:3])


def test_qtype_stats_agreement_table():
    traces = [
        {"stage_records": [{"memory_after": {"qa_type": t, "conjunction": "none"}}]}
        for t in ["why", "why", "what"]
    ]
    stats = qtype_stats(traces, labels=["why", "what", "what"])
    assert stats["agreement"]["diagonal"] == pytest.approx(2 / 3)
    assert stats["agreement"]["matrix"]["why"] == {"why": 1}


def test_summarize_per_subset(oracle_dir, oracle_bundle, mock_backend):
    items = _items(oracle_dir)
    results, summary = run_eval(items, "morevqa", mock_backend, oracle_bundle.fixtures)
    assert set(summary["per_subset"]) == {"region", "conjunction", "ocr", "counting", "open"}
    assert all(v == 1.0 for v in summary["per_subset"].values())


# --- a hostile backend never ends an item as item_error ---

_HOSTILE_TEXT = ["", "yes", "a grey cat", "#predict", "answer: 2", "(B)", "trim(start)",
                 "verify_action(x)\nlocalize(", "\n\n", "None", "-1", "x" * 300]
_HOSTILE_RESULTS = {
    "caption": lambda rng: rng.choice(_HOSTILE_TEXT),
    "vqa": lambda rng: rng.choice(_HOSTILE_TEXT),
    "complete": lambda rng: rng.choice(_HOSTILE_TEXT),
    "verify_action": lambda rng: rng.random() < 0.5,
    "score": lambda rng: rng.choice([0, 1, 0.0, 1.0, rng.random()]),
    "localize": lambda rng: [[rng.randint(-3, 40), [0.1, 0.2, 0.5, 0.9]]
                             for _ in range(rng.randint(0, 4))],
}


class _HostileBackend:
    """Passes about half the calls to the mock and answers the rest with a
    random result of the method's shape or a `backend:` error."""

    def __init__(self, inner, seed: int):
        self.inner = inner
        self.rng = random.Random(seed)
        self.hostile = 0

    def dispatch(self, req: ToolRequest) -> ToolResponse:
        rng = self.rng
        if rng.random() < 0.5:
            return self.inner.dispatch(req)
        self.hostile += 1
        if rng.random() < 0.1:
            return ToolResponse(req.id, ok=False, error="backend: hostile")
        result = _HOSTILE_RESULTS[req.method](rng)
        assert validate_result_shape(req.method, result)
        return ToolResponse(req.id, ok=True, result=result)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("system, planner", [(system, None) for system in SYSTEMS]
                         + [("morevqa", LlmBackedPlanner())], ids=[*SYSTEMS, "morevqa-llm"])
def test_hostile_replies_end_every_item_typed(oracle_dir, oracle_bundle, mock_backend,
                                             seed, system, planner):
    items = load_dataset(oracle_dir / "dataset.jsonl")
    backend = _HostileBackend(mock_backend, seed)
    results, _ = run_eval(items, system, backend, oracle_bundle.fixtures,
                          dataset_dir=oracle_dir, planner=planner)
    assert backend.hostile >= 10
    for failure in (r.failure for r in results if r.failure is not None):
        assert isinstance(failure.get("kind"), str) and failure["kind"] != "item_error", failure
