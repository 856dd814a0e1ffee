"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from astgen import (
    random_executable_program,
    random_extended_program,
    random_flat_program,
    stub_dispatch,
)
from refinterp import reference_interpret

from morevqa.baselines import JcefConfig, run_jcef
from morevqa.core import (
    EvalItem,
    FrameWindow,
    QAItem,
    RunConfig,
    Settings,
    TemporalRegion,
    TemporalConjunction,
)
from morevqa.harness import (
    grounded_qa_metrics,
    interval_iop,
    interval_iou,
    load_dataset,
    qtype_stats,
    run_ablation,
    run_eval,
)
from morevqa.lang import interpret, parse, render
from morevqa.pipeline import RuleBasedPlanner, apply_conjunction, apply_trim, run_morevqa
from morevqa.server import start_server
from morevqa.tools import (
    MockBackend,
    RecordingBackend,
    RemoteBackend,
    ReplayBackend,
    ReplayMissError,
    ToolRequest,
    ToolSession,
)


def _announce(number: int, name: str) -> None:
    print(f"CRITERION {number} ({name}): PASS")


def test_criterion_01_grammar_round_trip():
    rng = random.Random(1234)
    started = time.perf_counter()
    for _ in range(1000):
        program = random_flat_program(rng)
        assert parse(render(program)) == program
    for _ in range(1000):
        program = random_extended_program(rng)
        assert parse(render(program)) == program
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"round-trip took {elapsed:.2f}s"
    _announce(1, "grammar round-trip, 1000 flat and 1000 extended ASTs")


def test_criterion_02_interpreter_matches_reference():
    rng = random.Random(99)
    dispatch = stub_dispatch()
    for i in range(200):
        program = random_executable_program(rng)
        env = {"seed": i}
        mine = interpret(program, env, dispatch)
        ref_value, ref_calls = reference_interpret(program, env, dispatch)
        assert mine.value == ref_value, render(program)
        assert mine.calls == ref_calls, render(program)
    _announce(2, "interpreter agrees with reference evaluator on 200 programs")


def test_criterion_03_trim_law():
    import math

    rng = random.Random(7)
    regions = list(TemporalRegion)
    for _ in range(500):
        size = rng.randint(1, 200)
        start = rng.randint(0, 50)
        step = rng.randint(1, 4)
        window = FrameWindow(tuple(range(start, start + size * step, step)))
        for region in regions:
            trimmed = apply_trim(window, region)
            ids = window.to_list()
            if region is TemporalRegion.WHOLE:
                assert trimmed == window
                continue
            m = max(1, math.ceil(0.4 * len(window)))
            assert len(trimmed) == m
            positions = [ids.index(f) for f in trimmed]
            assert positions == list(range(positions[0], positions[0] + m))
            if region is TemporalRegion.BEGINNING:
                assert positions[0] == 0
            elif region is TemporalRegion.END:
                assert positions[-1] == len(ids) - 1
            else:
                mid = len(ids) // 2
                expected_start = max(0, min(mid - m // 2, len(ids) - m))
                assert positions[0] == expected_start
    _announce(3, "trim law on 500 windows x all regions")


def test_criterion_04_conjunction_law():
    rng = random.Random(11)
    conjs = [TemporalConjunction.AFTER, TemporalConjunction.BEFORE, TemporalConjunction.WHILE]
    for _ in range(500):
        universe_ids = sorted(rng.sample(range(300), rng.randint(1, 60)))
        anchor_ids = sorted(rng.sample(universe_ids, rng.randint(1, len(universe_ids))))
        universe = FrameWindow(tuple(universe_ids))
        anchor = FrameWindow(tuple(anchor_ids))
        for conj in conjs:
            result = apply_conjunction(anchor, conj, universe).to_list()
            if conj is TemporalConjunction.AFTER:
                brute = [f for f in universe_ids if f > max(anchor_ids)]
            elif conj is TemporalConjunction.BEFORE:
                brute = [f for f in universe_ids if f < min(anchor_ids)]
            else:
                brute = list(anchor_ids)
            if not brute:
                brute = list(anchor_ids)
            assert result == brute
    _announce(4, "conjunction law vs brute force on 500 pairs")


def _discretized_iou_iop(pred_ms, gt_ms):
    pred_set = set(range(pred_ms[0], pred_ms[1]))
    gt_set = set(range(gt_ms[0], gt_ms[1]))
    inter = len(pred_set & gt_set)
    union = len(pred_set | gt_set)
    iou = inter / union if union else 0.0
    iop = inter / len(pred_set) if pred_set else 0.0
    return iou, iop


def test_criterion_05_metric_oracle():
    rng = random.Random(21)
    for _ in range(1000):
        # endpoints on the millisecond grid so counting is exact
        p0 = rng.randint(0, 30_000)
        p1 = p0 + rng.randint(0, 10_000)
        g0 = rng.randint(0, 30_000)
        g1 = g0 + rng.randint(0, 10_000)
        iou = interval_iou((p0 / 1000, p1 / 1000), (g0 / 1000, g1 / 1000))
        iop = interval_iop((p0 / 1000, p1 / 1000), (g0 / 1000, g1 / 1000))
        brute_iou, brute_iop = _discretized_iou_iop((p0, p1), (g0, g1))
        assert abs(iou - brute_iou) < 1e-6
        assert abs(iop - brute_iop) < 1e-6

    from morevqa.harness import EvalItem, EvalResult

    for _ in range(100):
        results = []
        for _ in range(rng.randint(1, 25)):
            credit = rng.choice([0.0, 0.5, 1.0])
            p0 = rng.uniform(0, 40)
            g0 = rng.uniform(0, 40)
            pred = (p0, p0 + rng.uniform(0.2, 15))
            gt = (g0, g0 + rng.uniform(0.2, 15))
            qa = QAItem(question="q?", candidates=("a",), answer_mc=0, gt_window_s=gt)
            results.append(
                EvalResult(
                    item=EvalItem(video_id="v", qa=qa),
                    predicted_answer="a",
                    mc_index=0,
                    correct=credit,
                    pred_window_s=pred,
                )
            )
        metrics = grounded_qa_metrics(results)
        accuracy = sum(r.correct for r in results) / len(results)
        assert metrics.acc_at_gqa <= min(accuracy, metrics.iop_at_05) + 1e-12
    _announce(5, "interval metrics vs 1ms counting; Acc@GQA bound")


def test_criterion_06_jcef_equivalence(oracle_bundle, mock_backend):
    checked = 0
    for row in oracle_bundle.rows[:20]:
        qa = QAItem(
            question=row["question"],
            candidates=tuple(row["candidates"]) if row.get("candidates") else None,
        )
        video = oracle_bundle.fixtures[row["video_id"]].video_meta()
        config = RunConfig(
            stage_mask=(False, False, False), n_context_frames=video.frame_count
        )
        pipeline = run_morevqa(
            EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
            Settings(config, planner=RuleBasedPlanner()),
        )
        baseline = run_jcef(
            EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
            Settings(jcef_config=JcefConfig(fps_caption=1.0, frame_fraction=1.0)),
        )
        prediction_prompt = pipeline.trace["stage_records"][-1]["planner_prompt"]
        assert prediction_prompt == baseline.trace["prompt"], row["video_id"]
        checked += 1
    assert checked == 20
    _announce(6, "all-stages-off prediction prompt is byte-identical to the caption baseline")


def test_criterion_07_oracle_corpus_end_to_end(oracle_dir, oracle_bundle, mock_backend):
    started = time.perf_counter()
    items = load_dataset(oracle_dir / "dataset.jsonl")
    assert len(items) == 30

    _, full = run_eval(items, "morevqa", mock_backend, oracle_bundle.fixtures)
    assert full["accuracy"] == 1.0, full

    _, jcef = run_eval(items, "jcef", mock_backend, oracle_bundle.fixtures)
    assert jcef["accuracy"] < full["accuracy"]

    rows = run_ablation(items, mock_backend, oracle_bundle.fixtures)
    accs = {mask: acc for mask, acc in rows}
    assert accs[(True, True, True)] >= accs[(False, False, False)]

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle corpus run took {elapsed:.1f}s"
    _announce(7, "oracle corpus: pipeline 100%, caption baseline strictly less")


def test_criterion_08_single_stage_brittleness(oracle_dir, oracle_bundle, mock_backend):
    items = load_dataset(oracle_dir / "dataset.jsonl")
    results, summary = run_eval(
        items, "single_stage", mock_backend, oracle_bundle.fixtures, dataset_dir=oracle_dir
    )
    assert summary["failure_rate"] > 0
    assert "runtime_unbound" in summary["failures_by_kind"]
    assert "missing_program" in summary["failures_by_kind"]

    # the bad-grounding program runs to completion but grounds wrong frames
    bad = results[1]
    assert bad.failure is None
    assert bad.correct == 0.0
    vqa_calls = [c for c in bad.trace["calls"] if c[0] == "vqa"]
    assert vqa_calls and vqa_calls[0][1][0] == 0  # early trap frame, outside the region

    # the unbound-variable program fails structurally, never crashes
    unbound = results[2]
    assert unbound.failure is not None
    assert unbound.failure["kind"] == "runtime_unbound"
    _announce(8, "authored failure programs give structured failures and wrong-frame traces")


def test_criterion_09_determinism_and_replay(oracle_dir, oracle_bundle, tmp_path):
    items = load_dataset(oracle_dir / "dataset.jsonl")
    recording = tmp_path / "recording.jsonl"
    live_backend = RecordingBackend(MockBackend(oracle_bundle.fixtures), recording)
    out_live = tmp_path / "live"
    run_eval(items, "morevqa", live_backend, oracle_bundle.fixtures, out_dir=out_live)
    live_backend.close()

    replay_backend = ReplayBackend(recording)
    out_replay = tmp_path / "replay"
    run_eval(items, "morevqa", replay_backend, oracle_bundle.fixtures, out_dir=out_replay)

    assert (out_live / "results.jsonl").read_bytes() == (out_replay / "results.jsonl").read_bytes()
    live_traces = sorted((out_live / "traces").iterdir())
    replay_traces = sorted((out_replay / "traces").iterdir())
    assert [p.name for p in live_traces] == [p.name for p in replay_traces]
    for a, b in zip(live_traces, replay_traces):
        assert a.read_bytes() == b.read_bytes()

    # one mutated request triggers a replay miss naming the request
    first_request = ToolRequest.from_json_dict(
        json.loads(recording.read_text(encoding="utf-8").split("\n")[0])
    )
    mutated = ToolRequest(
        first_request.id,
        first_request.method,
        "mutated",
        first_request.frame_id,
        first_request.args,
    )
    with pytest.raises(ReplayMissError) as err:
        replay_backend.dispatch(mutated)
    assert first_request.method in str(err.value)
    # an arg outside the method's signature is refused as any backend refuses it
    unknown_arg = ToolRequest(first_request.id, first_request.method, first_request.video_id,
                              first_request.frame_id, {**first_request.args, "mutated": "yes"})
    assert replay_backend.dispatch(unknown_arg).error.startswith("invalid:")
    _announce(9, "record/replay byte-identical; mutated request is a replay miss")


def test_criterion_10_stats(oracle_dir, oracle_bundle, mock_backend):
    items = load_dataset(oracle_dir / "dataset.jsonl")[:20]
    results, _ = run_eval(items, "morevqa", mock_backend, oracle_bundle.fixtures)
    traces = [r.trace for r in results]
    labels = [item.qtype_label for item in items]
    stats = qtype_stats(traces, labels)

    assert abs(sum(stats["qa_type"].values()) - 1.0) <= 1e-12
    assert abs(sum(stats["conjunction"].values()) - 1.0) <= 1e-12

    from collections import Counter

    hand_counts = Counter(labels)
    assert stats["qa_type"] == {
        name: count / len(items) for name, count in hand_counts.items()
    }
    hand_conj = sum(1 for item in items if item.subset == "conjunction")
    assert stats["conjunction"]["present"] == hand_conj / len(items)
    assert stats["agreement"]["diagonal"] == 1.0
    _announce(10, "question-type stats match hand counts; agreement diagonal 1.0")


def test_criterion_11_wire_protocol_conformance(oracle_bundle, mock_backend):
    server = start_server(mock_backend)
    host, port = server.server_address[:2]
    remote = RemoteBackend(host, port)
    rng = random.Random(77)
    video_ids = sorted(oracle_bundle.fixtures)
    try:
        for i in range(500):
            video_id = rng.choice(video_ids)
            method = rng.choice(["caption", "vqa", "localize", "verify_action", "score"])
            frame_id = rng.randint(0, 31)
            args = {
                "question": rng.choice(["what is here?", "who is this?"]),
                "text": rng.choice(["grey cat", "gentle waves", "someone is"]),
                "action": rng.choice(["rolling in the grass", "waiting"]),
                "object": rng.choice(["cat", "dog", "kites"]),
                "frames": sorted(rng.sample(range(32), rng.randint(1, 8))),
            }
            req = ToolRequest(i + 1, method, video_id, frame_id, args)
            assert remote.dispatch(req) == mock_backend.dispatch(req), req

        # malformed line: invalid error, connection survives
        import socket as socket_module

        sock = socket_module.create_connection((host, port), timeout=5)
        fh = sock.makefile("rwb")
        fh.write(b'{"id": not valid json\n')
        fh.flush()
        reply = json.loads(fh.readline())
        assert reply["ok"] is False and reply["error"].startswith("invalid:")
        fh.write((json.dumps(ToolRequest(9, "caption", video_ids[0], 0).to_json_dict()) + "\n").encode())
        fh.flush()
        reply = json.loads(fh.readline())
        assert reply["ok"] is True and reply["id"] == 9
        sock.close()
    finally:
        remote.close()
        server.shutdown()
        server.server_close()
    _announce(11, "served mock matches in-process mock on 500 requests")
